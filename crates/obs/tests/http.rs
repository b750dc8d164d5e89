//! Integration tests for the telemetry HTTP server: concurrent scrapes
//! against a live registry, status-code handling over real sockets, and a
//! property test over the request-line parser.

use lightts_obs::http::{self, parse_request_line, ParseError, MAX_REQUEST_HEAD, MAX_REQUEST_LINE};
use lightts_obs::Registry;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn get_raw(addr: SocketAddr, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream.write_all(request).expect("send");
    let mut buf = String::new();
    stream.read_to_string(&mut buf).expect("read");
    buf
}

fn get(addr: SocketAddr, target: &str) -> (u16, String) {
    let resp = get_raw(
        addr,
        format!("GET {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
    );
    let status = resp.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = resp.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

#[test]
fn concurrent_scrapes_see_consistent_metrics_during_live_updates() {
    let registry = Arc::new(Registry::new());
    let counter = registry.counter("scrape.test_events");
    let srv = http::spawn(Arc::clone(&registry), "127.0.0.1:0").expect("bind");
    let addr = srv.addr();

    // A writer hammers the counter while 8 scrapers hit /metrics.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        let counter = Arc::clone(&counter);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                counter.inc();
            }
        })
    };
    let scrapers: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut last = 0u64;
                for _ in 0..12 {
                    let (status, body) = get(addr, "/metrics");
                    assert_eq!(status, 200, "{body}");
                    // Counters render with the conventional `_total` suffix.
                    let line = body
                        .lines()
                        .find(|l| l.starts_with("scrape_test_events_total "))
                        .unwrap_or_else(|| panic!("counter line missing in:\n{body}"));
                    let v: u64 = line.split(' ').nth(1).unwrap().parse().unwrap();
                    assert!(v >= last, "counter went backwards: {v} < {last}");
                    last = v;
                }
            })
        })
        .collect();
    for s in scrapers {
        s.join().expect("scraper thread");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
    srv.shutdown();
}

#[test]
fn endpoints_answer_with_correct_statuses() {
    let registry = Arc::new(Registry::new());
    registry.histogram("h.x_ns").record(42);
    let srv = http::spawn(Arc::clone(&registry), "127.0.0.1:0").expect("bind");
    let addr = srv.addr();

    let (status, body) = get(addr, "/");
    assert_eq!(status, 200);
    assert!(body.contains("/metrics"), "{body}");

    let (status, body) = get(addr, "/metrics.json");
    assert_eq!(status, 200);
    lightts_obs::jsonl::parse(body.trim()).expect("metrics.json parses");

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert!(body.contains("\"scheduler_alive\":null"), "no health callback: {body}");

    assert_eq!(get(addr, "/nothing-here").0, 404);

    // Query strings are stripped before routing.
    assert_eq!(get(addr, "/metrics?format=prometheus").0, 200);

    // Non-GET methods are rejected.
    let resp = get_raw(addr, b"POST /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 405"), "{resp}");

    // Malformed request line.
    let resp = get_raw(addr, b"NOT-HTTP\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");

    // Oversized request line → 414.
    let mut long = Vec::from(&b"GET /"[..]);
    long.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE + 10));
    long.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    let resp = get_raw(addr, &long);
    assert!(resp.starts_with("HTTP/1.1 414"), "{resp}");

    // Oversized head → 413.
    let mut big = Vec::from(&b"GET /metrics HTTP/1.1\r\n"[..]);
    while big.len() <= MAX_REQUEST_HEAD {
        big.extend_from_slice(b"X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    big.extend_from_slice(b"\r\n");
    let resp = get_raw(addr, &big);
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");

    srv.shutdown();
}

#[test]
fn openmetrics_negotiation_over_the_wire() {
    let registry = Arc::new(Registry::new());
    registry.histogram("neg.lat_ns").record_with_exemplar(900, 77);
    let srv = http::spawn(Arc::clone(&registry), "127.0.0.1:0").expect("bind");
    let addr = srv.addr();

    let classic = get_raw(addr, b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    assert!(classic.contains("text/plain; version=0.0.4"), "{classic}");
    assert!(!classic.contains("trace_id"), "classic exposition must not carry exemplars");

    let om = get_raw(
        addr,
        b"GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: application/openmetrics-text\r\nConnection: close\r\n\r\n",
    );
    assert!(om.contains("application/openmetrics-text"), "{om}");
    assert!(om.contains("# {trace_id=\"77\"} 900"), "exemplar missing: {om}");
    assert!(om.trim_end().ends_with("# EOF"), "{om}");

    srv.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The request-line parser is total: arbitrary bytes never panic, and
    /// every accepted line re-serializes to the same three tokens.
    #[test]
    fn request_line_parser_never_panics(raw in proptest::collection::vec(0u16..256, 0..256)) {
        let bytes: Vec<u8> = raw.iter().map(|&v| v as u8).collect();
        match parse_request_line(&bytes) {
            Ok(r) => {
                prop_assert!(!r.method.is_empty());
                prop_assert!(!r.target.is_empty());
                prop_assert!(r.version.starts_with("HTTP/"));
                let rebuilt = format!("{} {} {}", r.method, r.target, r.version);
                let text = std::str::from_utf8(&bytes).unwrap();
                prop_assert_eq!(text.strip_suffix('\r').unwrap_or(text), rebuilt);
            }
            Err(ParseError::Malformed) => {}
            Err(ParseError::LineTooLong) => prop_assert!(bytes.len() > MAX_REQUEST_LINE),
            Err(ParseError::HeadTooLarge) => prop_assert!(false, "head cap is not the line parser's job"),
        }
    }

    /// Oversized request lines always fail with LineTooLong, never panic.
    #[test]
    fn oversized_request_lines_rejected(extra in 1usize..64) {
        let line = vec![b'a'; MAX_REQUEST_LINE + extra];
        prop_assert_eq!(parse_request_line(&line), Err(ParseError::LineTooLong));
    }
}
