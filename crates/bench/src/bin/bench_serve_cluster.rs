//! `bench_serve_cluster`: closed-loop SLO benchmark of the sharded serving
//! runtime behind its TCP front door.
//!
//! For each scheduler shard count (default sweep `{1, 2, 4}`, or exactly
//! `LIGHTTS_SERVE_SHARDS` when set) the bench starts a [`Server`] on an
//! ephemeral TCP port and drives it with a **closed loop**: `C` client
//! connections each issue one blocking `PREDICT` at a time, so offered
//! load rises with `C` and the system is never asked for more than it just
//! delivered. Every cell serves with the default batching policy of
//! [`ServeConfig`], so the rows measure what a deployment gets. Each cell
//! records the exact sorted p50/p99 request latency,
//! completed throughput, and the shed rate (`OVERLOADED` + `DEADLINE`
//! replies), then merges its rows into `BENCH_serve.json` keyed on
//! `(bench, shards, concurrency, scale)` — `bench_gate --serve` gates the
//! p99 column against the committed baseline.
//!
//! Set `LIGHTTS_BENCH_SMOKE=1` (as CI does) to shrink the sweep and the
//! measurement windows to a compile-rot check rather than a measurement.
//! On a single-core host the shard counts are expected to tie (parity,
//! not speedup) — the artifact records the curve shape either way.

use lightts_bench::args::Args;
use lightts_bench::perf::{self, percentile_us, ServeRecord};
use lightts_models::inception::{InceptionConfig, InceptionTime};
use lightts_serve::{ModelRegistry, NetClient, ServeConfig, Server};
use lightts_tensor::rng::seeded;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const IN_LEN: usize = 64;
const MODEL: &str = "student";
/// Per-request deadline: generous enough that only a genuinely overloaded
/// queue sheds, tight enough that the shed path is exercised under load.
const DEADLINE: Duration = Duration::from_millis(250);

/// One cell's raw observations from all client threads.
#[derive(Default)]
struct CellOutcome {
    latencies_ns: Vec<u64>,
    ok: u64,
    shed: u64,
}

fn packed_student() -> Vec<u8> {
    let mut rng = seeded(17);
    let model = InceptionTime::new(InceptionConfig::student(1, IN_LEN, 10, 6, 8), &mut rng)
        .expect("build student");
    model.save_bytes().expect("pack student")
}

fn sample(i: usize) -> Vec<f32> {
    (0..IN_LEN)
        .map(|j| {
            let h = (i as u64 * 1_000_003 + j as u64).wrapping_mul(2_654_435_761) % 2000;
            h as f32 / 1000.0 - 1.0
        })
        .collect()
}

/// One closed-loop client: blocking predicts until `stop`, recording
/// latency per completed request. Shed replies (`OVERLOADED`/`DEADLINE`)
/// are counted, any other failure aborts the bench loudly.
fn client_loop(
    addr: std::net::SocketAddr,
    worker: usize,
    warm: Duration,
    stop: &AtomicBool,
) -> CellOutcome {
    let mut client = NetClient::connect(addr).expect("connect front door");
    let mut out = CellOutcome::default();
    let started = Instant::now();
    let mut i = worker;
    while !stop.load(Ordering::Relaxed) {
        let input = sample(i);
        i = i.wrapping_add(1);
        let t0 = Instant::now();
        let id = client.send(MODEL, &input, Some(DEADLINE)).expect("send request");
        let reply = client.recv().expect("recv reply");
        let lat = t0.elapsed();
        if started.elapsed() < warm {
            continue; // warm-up: connections, plans, allocator all settle
        }
        match reply {
            lightts_serve::wire::Reply::Ok { request_id, .. } => {
                assert_eq!(request_id, id, "front door broke per-connection FIFO");
                out.ok += 1;
                out.latencies_ns.push(lat.as_nanos() as u64);
            }
            lightts_serve::wire::Reply::Err { error, .. } => match error {
                lightts_serve::ServeError::Overloaded { .. }
                | lightts_serve::ServeError::DeadlineExceeded => out.shed += 1,
                other => panic!("unexpected serve error under closed loop: {other}"),
            },
        }
    }
    out
}

fn run_cell(
    packed: &[u8],
    shards: usize,
    concurrency: usize,
    warm: Duration,
    window: Duration,
) -> ServeRecord {
    let mut registry = ModelRegistry::new();
    registry.load_packed(MODEL, packed).expect("load student");
    let cfg = ServeConfig {
        shards,
        replicas: 0, // replicate the one hot model onto every shard
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg);
    assert_eq!(server.shards(), shards, "explicit shard count must win");
    let net = server.serve_net("127.0.0.1:0").expect("bind front door");
    let addr = net.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..concurrency)
        .map(|w| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || client_loop(addr, w, warm, &stop))
        })
        .collect();
    std::thread::sleep(warm + window);
    stop.store(true, Ordering::Relaxed);
    let mut cell = CellOutcome::default();
    for w in workers {
        let got = w.join().expect("client thread panicked");
        cell.ok += got.ok;
        cell.shed += got.shed;
        cell.latencies_ns.extend(got.latencies_ns);
    }
    server.shutdown();

    cell.latencies_ns.sort_unstable();
    let total = cell.ok + cell.shed;
    ServeRecord {
        bench: "tcp_closed_loop".into(),
        shards,
        concurrency,
        scale: perf::current_scale().into(),
        throughput_rps: cell.ok as f64 / window.as_secs_f64(),
        p50_us: percentile_us(&cell.latencies_ns, 0.50),
        p99_us: percentile_us(&cell.latencies_ns, 0.99),
        shed_rate: if total == 0 { 0.0 } else { cell.shed as f64 / total as f64 },
    }
}

fn main() {
    let args = Args::parse();
    let smoke = perf::current_scale() == "smoke";
    let (warm, window) = if smoke {
        (Duration::from_millis(50), Duration::from_millis(150))
    } else {
        (Duration::from_millis(200), Duration::from_millis(1000))
    };
    let shard_counts: Vec<usize> = match args.serve_shards {
        Some(n) => vec![n],
        None if smoke => vec![1, 2],
        None => vec![1, 2, 4],
    };
    let concurrencies: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16] };

    let packed = packed_student();
    let mut records = Vec::new();
    println!("bench\tshards\tconcurrency\tscale\tthroughput_rps\tp50_us\tp99_us\tshed_rate");
    for &shards in &shard_counts {
        for &concurrency in concurrencies {
            let r = run_cell(&packed, shards, concurrency, warm, window);
            println!(
                "{}\t{}\t{}\t{}\t{:.1}\t{:.1}\t{:.1}\t{:.4}",
                r.bench,
                r.shards,
                r.concurrency,
                r.scale,
                r.throughput_rps,
                r.p50_us,
                r.p99_us,
                r.shed_rate
            );
            records.push(r);
        }
    }
    perf::write_serve_records(&perf::default_serve_path(), &records)
        .expect("write BENCH_serve.json");
    eprintln!("wrote {} cells to {}", records.len(), perf::default_serve_path().display());
}
