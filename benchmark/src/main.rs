//! End-to-end benchmark of the three LightTS workloads.
//!
//! ```text
//! lightts-e2e-bench --workload distill|search|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! * `distill` — Scenario 1: AED with confident-Gumbel teacher removal.
//! * `search` — Scenario 2: encoded-MOBO Pareto search.
//! * `serve` — a trained student on the f32 and the i8 plan behind the LTSP
//!   TCP front door, in three phases: `lone`, `paced` and `saturated`.
//!
//! `--seed` picks the students `distill` trains and, in `serve`, the order
//! of the request inputs and the arrival schedule; the training problem is
//! pinned (see `setup.rs` for why). With `--trace 0` the run reports every
//! end-to-end metric with no tracing; with `--trace 1` it records spans
//! around its own calls into each layer, writes them under `.bench_trace/`,
//! and reports every per-layer metric. Each workload defines each metric
//! for itself (see `METRICS.md`). Every run checks the program's outputs.
//! The last line of standard output is the result object; the line before
//! it names the environment, and the one before that carries details and
//! missed checks.

mod distill;
mod load;
mod probe;
mod report;
mod search;
mod serve;
mod setup;
mod stats;
mod trace;

use report::{json_string, Outcome};
use std::process::ExitCode;
use trace::Tracer;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Distill,
    Search,
    Serve,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Distill => "distill",
            Workload::Search => "search",
            Workload::Serve => "serve",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "distill" => Workload::Distill,
                    "search" => Workload::Search,
                    "serve" => Workload::Serve,
                    _ => return Err(bad("distill|search|serve")),
                })
            }
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// End-to-end runs measure the shipped program: no fault injection, no
/// profiler, and no span sink.
fn guard_environment() -> Result<(), String> {
    if std::env::var_os("LIGHTTS_FAILPOINTS").is_some() {
        return Err(
            "LIGHTTS_FAILPOINTS is set; refusing to measure a fault-injected program".into()
        );
    }
    lightts_obs::prof::set_enabled(false);
    lightts_obs::set_sink(lightts_obs::SinkTarget::Off);
    Ok(())
}

/// Where traced runs leave their spans, relative to the checkout.
const TRACE_DIR: &str = ".bench_trace";

/// Writes a traced run's spans as JSON lines to `.bench_trace/`.
fn write_trace(args: &Args, spans: &[trace::Span]) {
    let name = format!("{}-seed{}.jsonl", args.workload.name(), args.seed);
    let path = std::path::Path::new(TRACE_DIR).join(name);
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::write(&path, trace::to_jsonl(spans)));
    match written {
        Ok(()) => eprintln!("trace: {} spans in {}", spans.len(), path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
    }
}

fn env_line(args: &Args, shards: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = report::commit().map_or("null".to_string(), |c| json_string(&c));
    format!(
        "{{\"env\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"simd\":\"{}\",\"kernel_threads\":{},\"serve_shards\":{shards},\"commit\":{commit},\
         \"source_digest\":\"{}\"}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        lightts::runtime::simd_backend().name(),
        lightts::runtime::num_threads(),
        report::source_digest(),
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: lightts-e2e-bench --workload distill|search|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = guard_environment() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let tracer = Tracer::new(args.trace);
    let steal_before = report::cpu_steal();
    let mut out: Outcome = match args.workload {
        Workload::Distill => distill::run(args.seed, args.seconds, &tracer),
        Workload::Search => search::run(args.seed, &tracer),
        Workload::Serve => serve::run(args.seed, args.seconds, &tracer),
    };
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, report::cpu_steal()) {
        out.note("host_steal_share", (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    }
    if tracer.on() {
        write_trace(&args, &tracer.spans());
    }
    if let Some(why) = out.undeclared(args.trace) {
        eprintln!("error: {why}; no result");
        return ExitCode::from(1);
    }
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: metric {} measured {}; no result", m.name, m.value);
        eprintln!("{}", out.detail_line());
        return ExitCode::from(1);
    }
    for m in &out.metrics {
        eprintln!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for miss in &out.misses {
        eprintln!("MISS: {miss}");
    }
    // the serve workload and every traced run's server probe use SHARDS
    let measured_serve = args.workload == Workload::Serve || args.trace;
    let shards = if measured_serve { serve::SHARDS } else { 0 };
    println!("{}", out.detail_line());
    println!("{}", env_line(&args, shards));
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a, Args { workload: Workload::Serve, seed: 7, seconds: 10.0, trace: true });
        assert!(args("--seed 7").is_err());
        assert!(args("--workload train").is_err());
        assert!(args("--workload distill --trace 2").is_err());
        assert!(args("--workload distill --seconds 0").is_err());
        assert!(args("--workload distill --seed").is_err());
    }
}
