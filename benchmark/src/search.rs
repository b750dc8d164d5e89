//! The `search` workload: Scenario 2, `LightTs::pareto_frontier` (encoded
//! MOBO with the two-phase encoder and the single-AED oracle).

use crate::distill::SETUP_REPS;
use crate::report::{EndToEnd, Outcome};
use crate::setup::{self, Prepared};
use crate::stats::median;
use crate::trace::{self, Tracer};
use lightts::prelude::*;
use lightts::search::pareto::hypervolume;
use std::collections::HashSet;
use std::time::Instant;

/// Runs the workload: end-to-end metrics untraced, per-layer metrics traced.
pub fn run(seed: u64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    if tracer.on() {
        traced(seed, tracer, &mut out);
        return out;
    }
    let (first_setup_s, prep) = setup::prepare_timed();
    out.note("peak_rss_setup_mb", crate::report::peak_rss_mib());
    let lt = setup::pinned_lightts();
    let space = lt.default_space(&prep.splits);
    let t0 = Instant::now();
    let res = lt.pareto_frontier(&prep.splits, &prep.teachers, &space);
    let search_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = crate::report::peak_rss_mib();
    let (mut setup_times, same) = setup::prepare_again(&prep, SETUP_REPS - 1);
    setup_times.push(first_setup_s);
    out.check(same, || "teacher probabilities differ between set-up repetitions".into());
    let run = account(&mut out, &lt, &space, res);
    let max_bits = space.max_size_bits();
    let hv = run.map_or(f64::NAN, |run| hypervolume(run.frontier(), max_bits));
    out.note("setup_reps", setup_times.len() as f64);
    out.note("hypervolume_acc_bits", hv);
    out.end_to_end(EndToEnd {
        setup_s: median(&setup_times),
        peak_rss_mb,
        latency_ms: search_s * 1e3,
        accuracy: hv / max_bits as f64,
    });
    out
}

/// Counts the oracle calls of one search and checks its outputs.
fn account(
    out: &mut Outcome,
    lt: &LightTs,
    space: &SearchSpace,
    res: lightts::Result<ParetoRun>,
) -> Option<ParetoRun> {
    match res {
        Ok(run) => {
            out.attempted += run.stats.evaluations as u64;
            check_run(out, lt.config().mobo.q, space, &run);
            Some(run)
        }
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.check(false, || format!("pareto_frontier failed: {e}"));
            None
        }
    }
}

/// `a` dominates `b`: no worse on accuracy and size, better on one.
fn dominates(a: &Evaluated, b: &Evaluated) -> bool {
    a.accuracy >= b.accuracy
        && a.size_bits <= b.size_bits
        && (a.accuracy > b.accuracy || a.size_bits < b.size_bits)
}

/// The Scenario-2 output checks: `Q` distinct, correctly sized, in-range
/// evaluations, and a frontier that is exactly their non-dominated subset.
fn check_run(out: &mut Outcome, q: usize, space: &SearchSpace, run: &ParetoRun) {
    let ev = &run.outcome.evaluated;
    out.check(ev.len() == q, || format!("{} evaluations, expected Q = {q}", ev.len()));
    out.check(run.stats.evaluations == q, || format!("{} oracle calls", run.stats.evaluations));
    let distinct: HashSet<&StudentSetting> = ev.iter().map(|e| &e.setting).collect();
    out.check(distinct.len() == ev.len(), || "evaluated settings repeat".into());
    for e in ev {
        let size = space.size_bits(&e.setting);
        out.check(e.size_bits == size, || {
            format!(
                "{} has size_bits {} but the space says {size}",
                e.setting.display(),
                e.size_bits
            )
        });
        out.check((0.0..=1.0).contains(&e.accuracy), || {
            format!("{} has accuracy {}", e.setting.display(), e.accuracy)
        });
    }
    let key = |e: &Evaluated| (e.size_bits, e.accuracy.to_bits());
    let mut want: Vec<_> =
        ev.iter().filter(|e| !ev.iter().any(|o| dominates(o, e))).map(key).collect();
    want.sort_unstable();
    want.dedup();
    let mut got: Vec<_> = run.frontier().iter().map(key).collect();
    got.sort_unstable();
    out.check(got == want, || format!("frontier {got:?} is not the non-dominated set {want:?}"));
    let members = run.frontier().iter().all(|f| ev.iter().any(|e| e == f));
    out.check(members, || "a frontier point was never evaluated".into());
}

/// The traced run: one traced set-up, the search untraced and traced, then
/// the per-layer probes.
fn traced(seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let prep: Prepared = setup::prepare(tracer);
    let lt = setup::pinned_lightts();
    let space = lt.default_space(&prep.splits);

    let t0 = Instant::now();
    let plain = lt.pareto_frontier(&prep.splits, &prep.teachers, &space);
    let untraced_s = t0.elapsed().as_secs_f64();
    let plain = account(out, &lt, &space, plain);
    let res = tracer
        .span("core.pareto_frontier", || lt.pareto_frontier(&prep.splits, &prep.teachers, &space));
    let traced_s = trace::busy_s(&tracer.spans(), "core.pareto_frontier");
    if let (Some(a), Some(run)) = (plain, account(out, &lt, &space, res)) {
        let same = a.outcome.evaluated == run.outcome.evaluated;
        out.check(same, || "traced and untraced searches evaluated different settings".into());
        out.note("search.trials", run.stats.evaluations as f64);
        out.note("search.oracle_s", run.stats.oracle_seconds);
        out.note("search.self_s", traced_s - run.stats.oracle_seconds);
    }
    out.note("core.search_s", traced_s);
    out.metric("obs.trace_overhead", traced_s / untraced_s);
    crate::probe::layers(seed, &lt, &prep, tracer, out);
}
