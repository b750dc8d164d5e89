//! `bench_serve`: serving throughput, single-request loop vs. the dynamic
//! micro-batching queue.
//!
//! The baseline issues one blocking request at a time (every fused batch
//! has size 1, paying the full queue/wake/scatter overhead per sample);
//! the batched variants pipeline the same number of requests through the
//! queue with `max_batch` 4 and 16, letting the scheduler fuse them. The
//! acceptance bar for the serving runtime is batched-at-16 throughput ≥
//! the single-request loop on the same host.
//!
//! Set `LIGHTTS_BENCH_SMOKE=1` (as CI does) to shrink warm-up and
//! measurement windows to a compile-rot check rather than a measurement.

use criterion::{criterion_group, BenchmarkId, Criterion};
use lightts_bench::perf::{self, KernelRecord};
use lightts_models::inception::{InceptionConfig, InceptionTime};
use lightts_serve::{ModelRegistry, Pending, PlanKind, ServeConfig, Server};
use lightts_tensor::rng::seeded;
use std::hint::black_box;
use std::time::Duration;

/// Requests per measured iteration.
const REQUESTS: usize = 64;
const IN_LEN: usize = 64;

fn config() -> Criterion {
    let smoke = std::env::var_os("LIGHTTS_BENCH_SMOKE").is_some();
    let (warm_ms, meas_ms) = if smoke { (50, 150) } else { (300, 1200) };
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(warm_ms))
        .measurement_time(Duration::from_millis(meas_ms))
}

/// A packed 8-bit student export, the deployment artifact a server loads.
fn packed_student() -> Vec<u8> {
    let mut rng = seeded(17);
    let model = InceptionTime::new(InceptionConfig::student(1, IN_LEN, 10, 6, 8), &mut rng)
        .expect("build student");
    model.save_bytes().expect("pack student")
}

fn samples() -> Vec<Vec<f32>> {
    (0..REQUESTS)
        .map(|i| {
            (0..IN_LEN)
                .map(|j| {
                    let h = (i as u64 * 1_000_003 + j as u64).wrapping_mul(2_654_435_761) % 2000;
                    h as f32 / 1000.0 - 1.0
                })
                .collect()
        })
        .collect()
}

fn bench_serve(c: &mut Criterion) {
    let packed = packed_student();
    let inputs = samples();
    let mut g = c.benchmark_group("serve");

    // Baseline: one blocking request at a time — every batch has size 1.
    {
        let mut reg = ModelRegistry::new();
        reg.load_packed("student", &packed).unwrap();
        let server = Server::start(
            reg,
            ServeConfig { max_batch: 1, max_wait: Duration::ZERO, ..ServeConfig::default() },
        );
        let handle = server.handle();
        g.bench_function("single_request_loop", |b| {
            b.iter(|| {
                for s in &inputs {
                    black_box(handle.predict("student", s.clone()).unwrap());
                }
            })
        });
        server.shutdown();
    }

    // Pipelined submission through the micro-batching queue.
    for max_batch in [4usize, 16] {
        let mut reg = ModelRegistry::new();
        reg.load_packed("student", &packed).unwrap();
        let cfg = ServeConfig {
            max_batch,
            max_wait: Duration::from_micros(200),
            ..ServeConfig::default()
        };
        let server = Server::start(reg, cfg);
        let handle = server.handle();
        g.bench_function(BenchmarkId::new("batched_queue", max_batch), |b| {
            b.iter(|| {
                let pendings: Vec<Pending> =
                    inputs.iter().map(|s| handle.submit("student", s.clone()).unwrap()).collect();
                for p in pendings {
                    black_box(p.wait().unwrap());
                }
            })
        });
        server.shutdown();
    }

    // The same two lanes with `PlanKind::I8`: the student is
    // compiled into the true-int8 `QuantizedPlan` at registration, so these
    // rows measure the end-to-end serving win of integer inference.
    {
        let mut reg = ModelRegistry::new();
        reg.load_packed_as("student", &packed, PlanKind::I8).unwrap();
        let server = Server::start(
            reg,
            ServeConfig { max_batch: 1, max_wait: Duration::ZERO, ..ServeConfig::default() },
        );
        let handle = server.handle();
        g.bench_function("single_request_loop_i8", |b| {
            b.iter(|| {
                for s in &inputs {
                    black_box(handle.predict("student", s.clone()).unwrap());
                }
            })
        });
        server.shutdown();
    }
    {
        let mut reg = ModelRegistry::new();
        reg.load_packed_as("student", &packed, PlanKind::I8).unwrap();
        let cfg = ServeConfig {
            max_batch: 16,
            max_wait: Duration::from_micros(200),
            ..ServeConfig::default()
        };
        let server = Server::start(reg, cfg);
        let handle = server.handle();
        g.bench_function(BenchmarkId::new("batched_queue_i8", 16usize), |b| {
            b.iter(|| {
                let pendings: Vec<Pending> =
                    inputs.iter().map(|s| handle.submit("student", s.clone()).unwrap()).collect();
                for p in pendings {
                    black_box(p.wait().unwrap());
                }
            })
        });
        server.shutdown();
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_serve
}

fn main() {
    benches();

    // Record the serving-throughput rows in BENCH_kernels.json too; each
    // iteration serves REQUESTS requests, so median_ns is per-64-requests.
    // threads = 0 marks a serve row (kernel rows record 1), so the row keys
    // stay those of the committed baseline.
    let scale = perf::current_scale();
    let records: Vec<KernelRecord> = criterion::take_measurements()
        .iter()
        .map(|m| KernelRecord {
            op: m.name.clone(),
            shape: format!("req{REQUESTS}_len{IN_LEN}"),
            median_ns: m.median_ns,
            threads: 0,
            scale: scale.to_string(),
            backend: lightts_tensor::simd::backend().name().to_string(),
        })
        .collect();
    if !records.is_empty() {
        perf::write_records(&perf::default_path(), &records).expect("write BENCH_kernels.json");
    }
}
