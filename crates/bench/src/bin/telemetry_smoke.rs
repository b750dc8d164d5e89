//! End-to-end smoke test of the live telemetry stack, over real TCP.
//!
//! ```text
//! telemetry_smoke
//! ```
//!
//! Serves a small model behind
//! [`Server::serve_telemetry`](lightts_serve::Server::serve_telemetry) on
//! an ephemeral loopback port, pushes a few hundred predictions through,
//! then plays Prometheus with a bare `std::net::TcpStream` client:
//!
//! * `GET /healthz` → 200 with `"scheduler_alive":true`;
//! * `GET /metrics` → 200 Prometheus text containing the `serve.*` stage
//!   histograms, with a `# TYPE` line for every series;
//! * `GET /metrics.json` → 200 parseable JSON;
//! * `GET /tracez` → 200 JSONL whose spans pass both schema and
//!   trace-linkage validation, with at least one reconstructable request
//!   (queue-wait / fuse / forward / reply under one `serve.request` root);
//! * `GET /profilez` → 200; with profiling enabled the collapsed stacks
//!   must name the plan forward and a conv kernel.
//!
//! Exits non-zero with a message on the first failed check. CI runs this
//! in both matrix configurations.

use lightts_models::inception::{BlockSpec, InceptionConfig, InceptionTime};
use lightts_serve::{ModelRegistry, ServeConfig, Server};
use lightts_tensor::rng::seeded;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const IN_DIMS: usize = 2;
const IN_LEN: usize = 16;
const CLASSES: usize = 3;

/// A small model with hand-set batch-norm statistics (no training run).
fn build_model(seed: u64) -> InceptionTime {
    let cfg = InceptionConfig {
        blocks: vec![
            BlockSpec { layers: 2, filter_len: 8, bits: 8 },
            BlockSpec { layers: 2, filter_len: 4, bits: 8 },
        ],
        filters: 3,
        in_dims: IN_DIMS,
        in_len: IN_LEN,
        num_classes: CLASSES,
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

fn sample(i: usize) -> Vec<f32> {
    (0..IN_DIMS * IN_LEN)
        .map(|j| {
            let h = (i as u64 * 1_000_003 + j as u64).wrapping_mul(2_654_435_761) % 2000;
            h as f32 / 1000.0 - 1.0
        })
        .collect()
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to telemetry server");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(stream, "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read response");
    let status: u16 = buf
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in response to {target}: {buf:?}"));
    let body = buf.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn check(what: &str, ok: bool, detail: &str) {
    if ok {
        println!("telemetry_smoke: {what}: ok");
    } else {
        eprintln!("telemetry_smoke: {what}: FAILED — {detail}");
        std::process::exit(1);
    }
}

fn main() {
    // Capture spans for /tracez regardless of LIGHTTS_OBS (serve_telemetry
    // enables the ring; the memory sink also exercises the sink path) and
    // turn the profiler on so /profilez has a tree to render.
    lightts_obs::set_sink(lightts_obs::SinkTarget::Memory);
    lightts_obs::prof::set_enabled(true);

    let model = build_model(0xC0FFEE);
    let mut registry = ModelRegistry::new();
    registry.load_packed("smoke", &model.save_bytes().unwrap()).unwrap();
    let server = Server::start(registry, ServeConfig::default());
    let telemetry = server.serve_telemetry("127.0.0.1:0").expect("bind telemetry");
    let addr = telemetry.addr();
    println!("telemetry_smoke: serving on http://{addr}/");

    // Push traffic through so every stage histogram and span fires.
    let handle = server.handle();
    let pendings: Vec<_> =
        (0..256).map(|i| handle.submit("smoke", sample(i)).expect("submit")).collect();
    for p in pendings {
        let row = p.wait().expect("prediction");
        assert_eq!(row.len(), CLASSES);
    }

    let (status, body) = get(addr, "/healthz");
    check(
        "/healthz",
        status == 200 && body.contains("\"scheduler_alive\":true"),
        &format!("status {status}, body {body:?}"),
    );

    let (status, body) = get(addr, "/metrics");
    let series_ok = ["serve_queue_wait_ns", "serve_fuse_ns", "serve_forward_ns", "serve_reply_ns"]
        .iter()
        .all(|s| body.contains(&format!("# TYPE {s} histogram")));
    check(
        "/metrics",
        status == 200 && series_ok && body.contains("serve_requests"),
        &format!("status {status}; missing stage histogram TYPE lines in:\n{body}"),
    );

    let (status, body) = get(addr, "/metrics.json");
    let json_ok = lightts_obs::jsonl::parse(body.trim()).is_ok();
    check("/metrics.json", status == 200 && json_ok, &format!("status {status}, body {body:?}"));

    let (status, body) = get(addr, "/tracez");
    let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut schema_err = None;
    for l in &lines {
        if let Err(e) = lightts_obs::jsonl::validate_event_line(l) {
            schema_err = Some(format!("{e} in {l}"));
            break;
        }
    }
    let linked = lightts_obs::jsonl::validate_trace_linkage(lines.iter().copied());
    check(
        "/tracez",
        status == 200
            && !lines.is_empty()
            && schema_err.is_none()
            && matches!(linked, Ok(n) if n > 0),
        &format!(
            "status {status}, {} lines, schema {:?}, linkage {:?}",
            lines.len(),
            schema_err,
            linked
        ),
    );
    // One request must be reconstructable stage by stage from the ring.
    let has_stages = ["serve.queue_wait", "serve.fuse", "serve.forward", "serve.reply"]
        .iter()
        .all(|p| lines.iter().any(|l| l.contains(&format!("\"path\":\"{p}\""))));
    check("/tracez stage spans", has_stages, "missing a stage span path in the ring");

    let (status, body) = get(addr, "/profilez");
    let named = body.contains("plan.forward") && body.contains("conv.lowered_fwd");
    check(
        "/profilez",
        status == 200 && named,
        &format!("status {status}; collapsed stacks must name the forward + conv kernels:\n{body}"),
    );

    let (status, _) = get(addr, "/nope");
    check("/nope is 404", status == 404, &format!("status {status}"));

    drop(telemetry);
    server.shutdown();
    println!("telemetry_smoke: all checks passed");
}
