//! The `serve` workload: a trained student behind the LTSP TCP front door,
//! served as two models, one on the f32 plan and one on the i8 plan, with
//! requests alternating between them. Requests carry the test series in a
//! seeded order. One client process drives three phases:
//!
//! * `lone` — closed loop, one connection, one request in flight;
//! * `paced` — open loop, seeded Poisson arrivals at a fixed rate; a sender
//!   and a receiver thread share one connection, and latency is timed from
//!   each request's due time;
//! * `saturated` — closed loop, one connection, a pipelined window of 64.

use crate::load::{self, OpenLoopTiming};
use crate::report::{EndToEnd, Outcome};
use crate::setup::{self, same_bits};
use crate::stats::{median, percentile, Latency};
use crate::trace::Tracer;
use lightts::models::inference::InferencePlan;
use lightts::models::qinference::QuantizedPlan;
use lightts::prelude::*;
use lightts::serve::wire::{self, Reply};
use lightts::serve::{NetClient, NetServer, PlanKind, ServeError};
use lightts::tensor::rng::derive_seed;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Scheduler shards, pinned rather than taken from the host.
pub const SHARDS: usize = 2;
/// Wire deadline of every request.
const DEADLINE: Duration = Duration::from_millis(250);
/// Open-loop arrival rate of the `paced` phase, requests per second: 15 to
/// 35% of the saturated capacity measured on a shared two-vCPU host, so a
/// period of heavy steal cannot push the phase into shedding.
const PACED_RATE: f64 = 1000.0;
/// Requests in flight in the `saturated` phase.
const WINDOW: usize = 64;
/// Set-ups per run; `setup_s` is their median. One takes 2 to 3 ms.
const SETUP_REPS: usize = 21;
/// Measurement rounds per run. Each phase of a round opens its own
/// connection; interleaving short rounds lets every phase see the same host
/// conditions.
const ROUNDS: usize = 12;
/// Lone requests per round at least, so even a slow run pools the 1000
/// requests its p99 needs.
const LONE_MIN: usize = 1000_usize.div_ceil(ROUNDS);
/// Idle time between training the served student and the first set-up.
/// For several seconds after that compute a two-vCPU host ran the server
/// in another regime (`lone` p50 1.4 ms and 17k saturated req/s, against
/// 1.2 ms and 10k once it had settled), and the share of a run's rounds
/// in it set where the run's figures fell. A server in use has not just
/// trained its model.
const SETTLE: Duration = Duration::from_secs(10);
/// Requests of the untimed warm-up after each set-up. They run at the
/// saturated rate, which the host moves by half (see [`summary`]), so
/// timing them into the set-up spread `setup_s` 0.16 to 0.44 of its median.
const WARMUP: usize = 256;

/// The two served models: name and plan kind.
const MODELS: [(&str, PlanKind); 2] = [("f32", PlanKind::F32), ("i8", PlanKind::I8)];

/// Which model request `i` goes to, and which of `n` inputs it sends: each
/// input goes to both models in turn.
fn route(i: usize, n: usize) -> (usize, usize) {
    (i % MODELS.len(), (i / MODELS.len()) % n)
}

/// Inputs, their labels, and the in-process plans' answer for each model
/// and input.
struct Oracle {
    /// The student's `save_bytes` export.
    packed: Vec<u8>,
    /// The test series, in the run's seeded order.
    inputs: Vec<Vec<f32>>,
    labels: Vec<usize>,
    /// `expected[model][input]`.
    expected: [Vec<Vec<f32>>; 2],
}

/// A compiled plan of either kind, run in process.
pub enum Plan {
    F32(InferencePlan),
    I8(QuantizedPlan),
}

impl Plan {
    /// Reloads an export and compiles the plan of `kind`.
    pub fn compile(bytes: &[u8], kind: PlanKind) -> Plan {
        let model = InceptionTime::load_bytes(bytes).expect("reload a served student");
        match kind {
            PlanKind::F32 => Plan::F32(model.compile().expect("compile the f32 plan")),
            PlanKind::I8 => Plan::I8(model.compile_quantized().expect("compile the i8 plan")),
        }
    }

    /// Class probabilities of one series.
    pub fn proba(&mut self, x: &[f32], out: &mut Vec<f32>) {
        match self {
            Plan::F32(p) => p.predict_proba_into(x, 1, out),
            Plan::I8(p) => p.predict_proba_into(x, 1, out),
        }
        .expect("in-process plan");
    }

    /// Logits of `batch` series.
    pub fn logits(&mut self, x: &[f32], batch: usize, out: &mut Vec<f32>) {
        match self {
            Plan::F32(p) => p.logits_into(x, batch, out),
            Plan::I8(p) => p.logits_into(x, batch, out),
        }
        .expect("in-process logits");
    }
}

impl Oracle {
    fn new(seed: u64, packed: Vec<u8>, test: &LabeledDataset) -> Oracle {
        let order = load::permutation(seed, test.len());
        let inputs: Vec<Vec<f32>> =
            order.iter().map(|&i| test.batch(&[i]).expect("test row").inputs.into_vec()).collect();
        let labels = order.iter().map(|&i| test.labels()[i]).collect();
        let expected = [0, 1].map(|m| {
            let mut plan = Plan::compile(&packed, MODELS[m].1);
            let mut out = Vec::new();
            inputs
                .iter()
                .map(|x| {
                    plan.proba(x, &mut out);
                    out.clone()
                })
                .collect()
        });
        Oracle { packed, inputs, labels, expected }
    }

    fn input(&self, i: usize) -> &[f32] {
        &self.inputs[route(i, self.inputs.len()).1]
    }

    fn model(i: usize) -> &'static str {
        MODELS[i % MODELS.len()].0
    }

    fn matches(&self, i: usize, probs: &[f32]) -> bool {
        let (m, x) = route(i, self.inputs.len());
        same_bits(probs, &self.expected[m][x])
    }

    /// Whether the most probable class of a reply is its input's label.
    fn correct(&self, i: usize, probs: &[f32]) -> bool {
        let top = probs.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(k, _)| k);
        top == Some(self.labels[route(i, self.inputs.len()).1])
    }
}

/// A running server with its front door.
struct Running {
    server: Server,
    door: NetServer,
    addr: SocketAddr,
}

impl Running {
    fn stop(self) {
        drop(self.door);
        self.server.shutdown();
    }
}

/// Loads and compiles both plans, starts the server and opens its door.
fn start(packed: &[u8], tracer: &Tracer) -> Running {
    let mut registry = ModelRegistry::new();
    for (name, kind) in MODELS {
        let span = match kind {
            PlanKind::F32 => "serve.ModelRegistry::load_packed_as(f32)",
            PlanKind::I8 => "serve.ModelRegistry::load_packed_as(i8)",
        };
        tracer.span(span, || registry.load_packed_as(name, packed, kind)).expect("load a student");
    }
    let cfg = ServeConfig { shards: SHARDS, ..ServeConfig::default() };
    let server = tracer.span("serve.Server::start", || Server::start(registry, cfg));
    let door = tracer
        .span("serve.Server::serve_net", || server.serve_net("127.0.0.1:0"))
        .expect("bind the front door");
    let addr = door.addr();
    Running { server, door, addr }
}

/// Sends [`WARMUP`] requests in windows of [`WINDOW`], checking each reply.
fn warm_up(run: &Running, oracle: &Oracle, out: &mut Outcome) {
    let mut client = NetClient::connect(run.addr).expect("connect to the front door");
    for round in 0..WARMUP / WINDOW {
        let ids: Vec<u64> = (0..WINDOW)
            .map(|j| {
                let i = round * WINDOW + j;
                client
                    .send(Oracle::model(i), oracle.input(i), Some(DEADLINE))
                    .expect("send a warm-up request")
            })
            .collect();
        for (j, id) in ids.into_iter().enumerate() {
            match client.recv().expect("warm-up reply") {
                Reply::Ok { request_id, probs } => {
                    let i = round * WINDOW + j;
                    out.check(request_id == id, || format!("warm-up reply {request_id} for {id}"));
                    out.check(oracle.matches(i, &probs), || {
                        format!("warm-up reply {i} differs from its plan")
                    });
                }
                Reply::Err { error, .. } => {
                    out.check(false, || format!("warm-up request failed: {error}"))
                }
            }
        }
    }
}

/// What one phase observed, from the client and from the server.
#[derive(Default)]
struct Phase {
    /// Per-request latency in µs; failed requests count as infinite.
    latency_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Successful replies whose most probable class is the label.
    correct: u64,
    /// The measured window, to the first reply after it closed (saturated
    /// only).
    elapsed: Duration,
    /// Successful replies that arrived inside the window (saturated only).
    completed: u64,
    /// Generator lag in µs (paced only).
    lag_us: Vec<f64>,
    /// Server stage histograms over the phase: (Σ ns, count) each for
    /// queue wait, fuse, forward, reply.
    stages: [(u64, u64); 4],
    /// Requests answered and batches run by the server during the phase.
    served: (u64, u64),
}

const STAGES: [&str; 4] =
    ["serve.queue_wait_ns", "serve.fuse_ns", "serve.forward_ns", "serve.reply_ns"];

/// Server-side counters at one instant: stage sums and counts, requests
/// and batches.
pub fn server_marks(server: &Server) -> ([(u64, u64); 4], u64, u64) {
    let snap = server.metrics().snapshot();
    let stages = STAGES.map(|n| snap.histogram(n).map_or((0, 0), |h| (h.sum, h.count)));
    let stats = server.stats();
    (stages, stats.requests, stats.batches)
}

fn finish_phase(server: &Server, before: ([(u64, u64); 4], u64, u64), phase: &mut Phase) {
    let after = server_marks(server);
    for (k, stage) in phase.stages.iter_mut().enumerate() {
        *stage = (after.0[k].0 - before.0[k].0, after.0[k].1 - before.0[k].1);
    }
    phase.served = (after.1 - before.1, after.2 - before.2);
}

/// Records one reply of request `i` (id `i + 1`) arriving in order.
fn take_reply(
    reply: Reply,
    i: usize,
    oracle: &Oracle,
    phase: &mut Phase,
    out: &mut Outcome,
) -> bool {
    let id = i as u64 + 1;
    phase.attempted += 1;
    match reply {
        Reply::Ok { request_id, probs } => {
            out.check(request_id == id, || {
                format!("reply {request_id} arrived in the place of {id}")
            });
            out.check(oracle.matches(i, &probs), || {
                format!("request {id} to {} differs from the in-process plan", Oracle::model(i))
            });
            phase.correct += u64::from(oracle.correct(i, &probs));
            true
        }
        Reply::Err { request_id, error } => {
            out.check(request_id == id, || {
                format!("reply {request_id} arrived in the place of {id}")
            });
            let shed = matches!(
                error,
                ServeError::Overloaded { .. }
                    | ServeError::DeadlineExceeded
                    | ServeError::CircuitOpen { .. }
            );
            if !shed {
                eprintln!("request {id} failed: {error}");
            }
            phase.failed += 1;
            false
        }
    }
}

/// `lone`: one request in flight on one connection, for `window` and at
/// least [`LONE_MIN`] requests.
fn lone(
    run: &Running,
    oracle: &Oracle,
    window: Duration,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Phase {
    let mut client = NetClient::connect(run.addr).expect("connect to the front door");
    let mut phase = Phase::default();
    let before = server_marks(&run.server);
    let start = Instant::now();
    let mut i = 0usize;
    while i < LONE_MIN || start.elapsed() < window {
        let t0 = Instant::now();
        let reply = tracer.span("serve.NetClient::predict", || {
            client
                .send_with_id(i as u64 + 1, Oracle::model(i), oracle.input(i), Some(DEADLINE))
                .expect("send a lone request");
            client.recv().expect("receive a lone reply")
        });
        let lat = t0.elapsed().as_secs_f64() * 1e6;
        let ok = take_reply(reply, i, oracle, &mut phase, out);
        phase.latency_us.push(if ok { lat } else { f64::INFINITY });
        i += 1;
    }
    finish_phase(&run.server, before, &mut phase);
    phase
}

/// `paced`: seeded Poisson arrivals; a sender and a receiver thread share
/// one connection.
fn paced(
    run: &Running,
    oracle: &Oracle,
    seed: u64,
    window: Duration,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Phase {
    let due = load::poisson_schedule(seed, PACED_RATE, window);
    let n = due.len();
    let stream = TcpStream::connect(run.addr).expect("connect to the front door");
    stream.set_nodelay(true).expect("disable Nagle");
    let reader = stream.try_clone().expect("clone the connection");
    let mut client = NetClient::from_stream(stream).expect("handshake");
    let mut phase = Phase::default();
    let before = server_marks(&run.server);
    // both threads start from one origin a little in the future
    let origin = Instant::now() + Duration::from_millis(2);
    let (sent, done) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut sent = Vec::with_capacity(n);
            for (i, d) in due.iter().enumerate() {
                let target = origin + *d;
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                sent.push(Instant::now().saturating_duration_since(origin));
                tracer
                    .span("serve.NetClient::send", || {
                        client.send_with_id(
                            i as u64 + 1,
                            Oracle::model(i),
                            oracle.input(i),
                            Some(DEADLINE),
                        )
                    })
                    .expect("send a paced request");
            }
            sent
        });
        let mut r = BufReader::new(reader);
        let mut done = Vec::with_capacity(n);
        for i in 0..n {
            let reply = tracer.span("serve.wire::read_frame", || {
                let frame =
                    wire::read_frame(&mut r).expect("read a reply frame").expect("connection open");
                wire::decode_reply(&frame.expect("well-formed frame")).expect("decode a reply")
            });
            let at = Instant::now().saturating_duration_since(origin);
            done.push((at, take_reply(reply, i, oracle, &mut phase, out)));
        }
        (sender.join().expect("the paced sender panicked"), done)
    });
    for ((d, s), (at, ok)) in due.iter().zip(&sent).zip(&done) {
        let t = OpenLoopTiming { due: *d, sent: *s, done: *at };
        phase.latency_us.push(if *ok { t.latency().as_secs_f64() * 1e6 } else { f64::INFINITY });
        phase.lag_us.push(t.lag().as_secs_f64() * 1e6);
    }
    finish_phase(&run.server, before, &mut phase);
    phase
}

/// `saturated`: a fixed pipelined window on one connection.
fn saturated(
    run: &Running,
    oracle: &Oracle,
    window: Duration,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Phase {
    let mut client = NetClient::connect(run.addr).expect("connect to the front door");
    let mut phase = Phase::default();
    let before = server_marks(&run.server);
    let send = |client: &mut NetClient<TcpStream>, i: usize| {
        tracer
            .span("serve.NetClient::send", || {
                client.send_with_id(i as u64 + 1, Oracle::model(i), oracle.input(i), Some(DEADLINE))
            })
            .expect("send a request");
    };
    for i in 0..WINDOW {
        send(&mut client, i);
    }
    let start = Instant::now();
    let mut next = WINDOW;
    let mut received = 0usize;
    let mut counted = 0u64; // successful replies inside the window
    while received < next {
        let reply =
            tracer.span("serve.NetClient::recv", || client.recv()).expect("receive a reply");
        let ok = take_reply(reply, received, oracle, &mut phase, out);
        received += 1;
        if start.elapsed() < window {
            counted += u64::from(ok);
            send(&mut client, next);
            next += 1;
        } else if phase.elapsed.is_zero() {
            phase.elapsed = start.elapsed();
        }
    }
    phase.completed = counted;
    finish_phase(&run.server, before, &mut phase);
    phase
}

/// The phases of every round, indexed `[phase][round]`.
type Rounds = [Vec<Phase>; 3];

/// [`ROUNDS`] rounds of the three phases, the rounds sharing `seconds` and
/// each split 1 : 2 : 1. Interleaving the phases lets each see the same host
/// conditions; latencies pool every round's requests.
fn phases(
    run: &Running,
    oracle: &Oracle,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Rounds {
    let q = Duration::from_secs_f64(seconds / ROUNDS as f64 / 4.0);
    let mut rounds: Rounds = Default::default();
    for r in 0..ROUNDS as u64 {
        rounds[0].push(lone(run, oracle, q, tracer, out));
        rounds[1].push(paced(run, oracle, derive_seed(seed, 0xA2 + r), 2 * q, tracer, out));
        rounds[2].push(saturated(run, oracle, q, tracer, out));
    }
    for ph in rounds.iter().flatten() {
        out.attempted += ph.attempted;
        out.failed += ph.failed;
    }
    rounds
}

/// One per-request series pooled over every round of a phase.
fn pool(rounds: &[Phase], pick: impl Fn(&Phase) -> &[f64]) -> Latency {
    Latency::of(&rounds.iter().flat_map(|p| pick(p).iter().copied()).collect::<Vec<_>>())
}

/// Latency over every request of a phase's rounds, with its sample count
/// and the highest percentile the sample supports.
fn pooled(out: &mut Outcome, name: &str, rounds: &[Phase]) -> Latency {
    let lat = pool(rounds, |p| &p.latency_us);
    out.check(lat.p99.is_some(), || format!("{name}: {} samples cannot support p99", lat.n));
    out.note(format!("{name}_samples"), lat.n as f64);
    out.note(format!("{name}_tail_level"), lat.tail_level.unwrap_or(f64::NAN));
    out.note(format!("{name}_tail_us"), lat.tail.unwrap_or(f64::NAN));
    lat
}

/// Requests per second a saturated round completed inside its window.
fn rps(s: &Phase) -> f64 {
    s.completed as f64 / s.elapsed.as_secs_f64()
}

/// The end-to-end serve figures: `lone` p50 in µs, and the share of
/// successful replies, over every phase, whose most probable class is the
/// label. The rest goes to the detail line: the `lone` tail, the `paced`
/// latencies and the `saturated` throughput, both as the upper quartile
/// and the mean over rounds. On a shared two-vCPU virtual machine those
/// follow the host: over ten runs each, the `lone` tail and `paced`
/// latencies spread 0.27 to 2.3 of their median, and the saturated
/// throughput 0.45 (5.3k to 8.8k req/s), wider than any bound the benchmark
/// may set.
fn summary(out: &mut Outcome, rounds: &Rounds) -> (f64, f64) {
    let [l, p, s] = rounds;
    let lone = pooled(out, "lone", l);
    let paced = pooled(out, "paced", p);
    out.note("rounds", ROUNDS as f64);
    out.note("lone_p50_us", lone.p50);
    out.note("lone_p99_us", lone.p99.unwrap_or(f64::NAN));
    out.note("paced_p50_us", paced.p50);
    out.note("paced_p99_us", paced.p99.unwrap_or(f64::NAN));
    out.note("paced_lag_p99_us", pool(p, |x| &x.lag_us).p99.unwrap_or(f64::NAN));
    out.note("saturated_ok", s.iter().map(|p| p.attempted - p.failed).sum::<u64>() as f64);
    let mut per_round: Vec<f64> = s.iter().map(rps).collect();
    per_round.sort_by(f64::total_cmp);
    out.note("saturated_mean_rps", per_round.iter().sum::<f64>() / per_round.len() as f64);
    out.note("saturated_rps", percentile(&per_round, 0.75));
    let all = rounds.iter().flatten();
    let (ok, correct) = all.fold((0, 0), |a, p| (a.0 + p.attempted - p.failed, a.1 + p.correct));
    (lone.p50, correct as f64 / ok as f64)
}

/// Runs the workload: end-to-end metrics untraced, per-layer metrics traced.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    if tracer.on() {
        traced(seed, seconds, tracer, &mut out);
        return out;
    }
    let off = Tracer::new(false);
    let prep = setup::prepare(&off);
    let student = setup::serve_student(&prep, &off);
    let export = || student.save_bytes().expect("export the student");
    let oracle = Oracle::new(seed, export(), &prep.splits.test);
    std::thread::sleep(SETTLE);
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut warm_up_times = Vec::with_capacity(SETUP_REPS);
    let mut running = None;
    for _ in 0..SETUP_REPS {
        if let Some(r) = running.take() {
            Running::stop(r);
        }
        let t0 = Instant::now();
        let packed = export();
        let r = start(&packed, &off);
        setup_times.push(t0.elapsed().as_secs_f64());
        out.check(packed == oracle.packed, || "the student exported different bytes".into());
        let t0 = Instant::now();
        warm_up(&r, &oracle, &mut out);
        warm_up_times.push(t0.elapsed().as_secs_f64());
        running = Some(r);
    }
    let running = running.expect("a server");
    out.note("warm_up_s", median(&warm_up_times));
    out.note("peak_rss_setup_mb", crate::report::peak_rss_mib());
    let ph = phases(&running, &oracle, seed, seconds, &off, &mut out);
    running.stop();
    out.note("setup_reps", setup_times.len() as f64);
    let (lone_p50_us, accuracy) = summary(&mut out, &ph);
    out.end_to_end(EndToEnd {
        setup_s: median(&setup_times),
        peak_rss_mb: crate::report::peak_rss_mib(),
        latency_ms: lone_p50_us / 1e3,
        accuracy,
    });
    out
}

/// The traced run: a traced set-up, the phases untraced and then traced,
/// then the per-layer probes. The phases' server-side split goes to the
/// detail line.
fn traced(seed: u64, seconds: f64, tracer: &Tracer, out: &mut Outcome) {
    let prep = setup::prepare(tracer);
    let student = setup::serve_student(&prep, tracer);
    let packed = tracer
        .span("models.InceptionTime::save_bytes", || student.save_bytes())
        .expect("export the student");
    let oracle = Oracle::new(seed, packed.clone(), &prep.splits.test);
    std::thread::sleep(SETTLE);
    let running = start(&packed, tracer);
    warm_up(&running, &oracle, out);
    let off = Tracer::new(false);
    let plain = phases(&running, &oracle, seed, seconds, &off, out);
    let traced = phases(&running, &oracle, seed, seconds, tracer, out);
    running.stop();

    // server-side means over all rounds of a phase: Σ num / Σ den
    let ratio = |rounds: &[Phase], f: &dyn Fn(&Phase) -> (u64, u64)| {
        let (num, den) = rounds.iter().map(f).fold((0, 0), |a, x| (a.0 + x.0, a.1 + x.1));
        num as f64 / den.max(1) as f64
    };
    for (name, rounds) in ["lone", "paced", "saturated"].iter().zip(&plain) {
        for (k, stage) in ["queue_wait", "fuse", "forward", "reply"].iter().enumerate() {
            let mean_us = ratio(rounds, &|p| p.stages[k]) / 1e3;
            out.note(format!("serve.{name}.{stage}_us"), mean_us);
        }
        out.note(format!("serve.{name}.mean_batch"), ratio(rounds, &|p| p.served));
        let failed = rounds.iter().map(|p| p.failed).sum::<u64>();
        out.note(format!("serve.{name}.failed"), failed as f64);
    }
    let lag = pool(&plain[1], |p| &p.lag_us);
    out.note("serve.generator_lag_p99_us", lag.p99.unwrap_or(f64::NAN));
    let lone_p50 = |r: &Rounds| pool(&r[0], |p| &p.latency_us).p50;
    out.metric("obs.trace_overhead", lone_p50(&traced) / lone_p50(&plain));
    crate::probe::layers(seed, &setup::pinned_lightts(), &prep, tracer, out);
    let inproc = out.metrics.iter().find(|m| m.name == "serve.inproc_p50_us");
    out.note("serve.net_us", lone_p50(&plain) - inproc.map_or(f64::NAN, |m| m.value));
}
