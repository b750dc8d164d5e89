//! Front-door integration: the TCP `LTSP` path must be semantically
//! *and bitwise* identical to in-process submission — same golden answers,
//! same typed errors, same shed/drain behavior — for any shard count.
//!
//! The golden student fixture (`tests/fixtures/golden_student.bin`, pinned
//! by `tests/golden_model.rs`) is served here so the byte-for-byte
//! contract covers the exact artifact the repo ships.

use lightts_serve::wire::{self, Reply, Status};
use lightts_serve::{ModelRegistry, NetClient, NetError, ServeConfig, ServeError, Server};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

const IN_DIMS: usize = 1;
const IN_LEN: usize = 32;
const CLASSES: usize = 6;

fn golden_packed() -> &'static [u8] {
    include_bytes!("../../../tests/fixtures/golden_student.bin")
}

/// Deterministic input `i`, same integer-derived recipe as the golden
/// fixture's inputs (pure integer arithmetic — no libm).
fn sample(i: usize) -> Vec<f32> {
    (0..IN_DIMS * IN_LEN)
        .map(|j| {
            let h = (i as u64 * 1_000_003 + j as u64).wrapping_mul(2_654_435_761) % 2000;
            h as f32 / 1000.0 - 1.0
        })
        .collect()
}

fn start_server(shards: usize) -> Server {
    let mut registry = ModelRegistry::new();
    registry.load_packed("golden", golden_packed()).unwrap();
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait: Duration::from_millis(1),
        shards,
        replicas: 0, // all shards
        ..ServeConfig::default()
    };
    Server::start(registry, cfg)
}

#[test]
fn tcp_replies_bitwise_equal_in_process_submit_for_golden_student() {
    let server = start_server(1);
    let net = server.serve_net("127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(net.addr()).unwrap();
    let handle = server.handle();

    for i in 0..12 {
        let local = handle.predict("golden", sample(i)).unwrap();
        let remote = client.predict("golden", &sample(i)).unwrap();
        assert_eq!(local.len(), CLASSES);
        let l: Vec<u32> = local.iter().map(|v| v.to_bits()).collect();
        let r: Vec<u32> = remote.iter().map(|v| v.to_bits()).collect();
        assert_eq!(l, r, "sample {i}: TCP reply drifted from in-process bits");
    }
    server.shutdown();
}

#[test]
fn shard_counts_one_and_four_answer_bitwise_identically_over_tcp() {
    let s1 = start_server(1);
    let s4 = start_server(4);
    assert_eq!(s1.shards(), 1);
    assert_eq!(s4.shards(), 4);
    let n1 = s1.serve_net("127.0.0.1:0").unwrap();
    let n4 = s4.serve_net("127.0.0.1:0").unwrap();
    let mut c1 = NetClient::connect(n1.addr()).unwrap();
    let mut c4 = NetClient::connect(n4.addr()).unwrap();

    for i in 0..16 {
        let a = c1.predict("golden", &sample(i)).unwrap();
        let b = c4.predict("golden", &sample(i)).unwrap();
        let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb, "sample {i}: shard count changed the answer bits");
    }
    s1.shutdown();
    s4.shutdown();
}

#[test]
fn typed_errors_cross_the_wire_as_their_status() {
    let server = start_server(1);
    let net = server.serve_net("127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(net.addr()).unwrap();

    match client.predict("nope", &sample(0)).unwrap_err() {
        NetError::Serve(ServeError::UnknownModel { name }) => assert_eq!(name, "nope"),
        other => panic!("unknown model crossed the wire as {other:?}"),
    }
    match client.predict("golden", &[1.0, 2.0]).unwrap_err() {
        NetError::Serve(ServeError::BadRequest { .. }) => {}
        other => panic!("bad shape crossed the wire as {other:?}"),
    }
    let mut bad = sample(0);
    bad[7] = f32::NAN;
    match client.predict("golden", &bad).unwrap_err() {
        NetError::Serve(ServeError::NonFiniteInput { index }) => assert_eq!(index, 7),
        other => panic!("NaN input crossed the wire as {other:?}"),
    }
    // The connection survives typed request errors: a good request after
    // three bad ones still answers.
    assert_eq!(client.predict("golden", &sample(1)).unwrap().len(), CLASSES);
    server.shutdown();
}

#[test]
fn expired_deadline_comes_back_as_deadline_status() {
    let mut registry = ModelRegistry::new();
    registry.load_packed("golden", golden_packed()).unwrap();
    // Batch forms only after 20 ms, so a 1 µs deadline is always expired
    // by the time the scheduler looks at the request: deterministic shed.
    let cfg = ServeConfig {
        max_batch: 64,
        max_wait: Duration::from_millis(20),
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg);
    let net = server.serve_net("127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(net.addr()).unwrap();
    let id = client.send("golden", &sample(0), Some(Duration::from_micros(1))).unwrap();
    match client.recv().unwrap() {
        Reply::Err { request_id, error: ServeError::DeadlineExceeded } => {
            assert_eq!(request_id, id)
        }
        other => panic!("expired deadline crossed the wire as {other:?}"),
    }
    server.shutdown();
}

#[test]
fn shutdown_under_load_drains_every_accepted_request() {
    let mut registry = ModelRegistry::new();
    registry.load_packed("golden", golden_packed()).unwrap();
    // Park the scheduler: an unreachable batch size and a long wait keep
    // every pipelined request queued until shutdown drains them.
    let cfg = ServeConfig {
        max_batch: 10_000,
        max_wait: Duration::from_secs(10),
        max_queue: 64,
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg);
    let net = server.serve_net("127.0.0.1:0").unwrap();
    let mut client = NetClient::connect(net.addr()).unwrap();

    const N: usize = 8;
    let mut ids = Vec::new();
    for i in 0..N {
        ids.push(client.send("golden", &sample(i), None).unwrap());
    }
    // Let the connection reader enqueue everything before pulling the plug.
    std::thread::sleep(Duration::from_millis(100));
    server.shutdown();

    // Every pipelined request gets a real OK reply — drained, not dropped
    // on a closed socket — in submission order.
    for (i, id) in ids.iter().enumerate() {
        match client.recv().unwrap() {
            Reply::Ok { request_id, probs } => {
                assert_eq!(request_id, *id, "reply {i} out of FIFO order");
                assert_eq!(probs.len(), CLASSES);
            }
            other => panic!("request {i} got {other:?} instead of a drained OK"),
        }
    }
    // …and only then does the socket close cleanly.
    match client.recv().unwrap_err() {
        NetError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("expected clean EOF after drain, got {other:?}"),
    }
}

#[test]
fn garbage_frame_gets_badreq_then_close() {
    let server = start_server(1);
    let net = server.serve_net("127.0.0.1:0").unwrap();
    let mut stream = TcpStream::connect(net.addr()).unwrap();
    wire::write_handshake(&mut stream).unwrap();
    wire::write_frame(&mut stream, b"\xffthis is not a predict request").unwrap();
    stream.flush().unwrap();

    let payload = wire::read_frame(&mut stream).unwrap().expect("reply frame").unwrap();
    assert_eq!(payload.first(), Some(&(Status::BadReq as u8)), "garbage must answer BADREQ");
    match wire::decode_reply(&payload).unwrap() {
        Reply::Err { request_id, error: ServeError::BadRequest { .. } } => {
            assert_eq!(request_id, 0, "no id was parsed, the reply echoes 0")
        }
        other => panic!("garbage frame decoded as {other:?}"),
    }
    // The server hangs up after a protocol error — desync is not survivable.
    assert!(wire::read_frame(&mut stream).unwrap().is_none(), "expected EOF after BADREQ");
    server.shutdown();
}
