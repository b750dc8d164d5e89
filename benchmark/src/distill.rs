//! The `distill` workload: Scenario 1, `LightTs::distill_with_config`
//! (AED with confident-Gumbel teacher removal) over five teachers into an
//! 8-bit student.

use crate::report::{EndToEnd, Outcome};
use crate::setup::{self, same_bits, Prepared, TEACHERS};
use crate::stats::median;
use crate::trace::{self, Tracer};
use lightts::prelude::*;
use lightts::serve::{ModelRegistry, ServeConfig, Server};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// A run distills once per this many seconds of `--seconds` (5 times at
/// 24 s). One distillation takes 4 to 7 s on a 2-CPU host. The accuracy is
/// the mean over the run's students; each student's depends on its seed,
/// and the mean of 5 still spread 0.11 of its median over ten seeds.
const DISTILL_NOMINAL_S: f64 = 4.8;

/// Runs the workload: end-to-end metrics untraced, per-layer metrics traced.
pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    if tracer.on() {
        traced(seed, tracer, &mut out);
        return out;
    }
    let (first_setup_s, prep) = setup::prepare_timed();
    out.note("peak_rss_setup_mb", crate::report::peak_rss_mib());
    let cfg = setup::student_config(&prep.splits);

    // One distillation per DISTILL_NOMINAL_S of `seconds`, each with the next
    // student seed; the work is the same for every seed. The count does not
    // depend on the host's speed because the process's peak memory grows
    // with every distillation it runs.
    let reps = (seconds / DISTILL_NOMINAL_S).round().max(1.0) as u64;
    let mut times = Vec::new();
    let mut accs = Vec::new();
    for rep in 0..reps {
        let lt = setup::lightts(setup::student_seed(seed, rep));
        let t0 = Instant::now();
        let res = lt.distill_with_config(&prep.splits, &prep.teachers, &cfg);
        times.push(t0.elapsed().as_secs_f64());
        if let Some(o) = account(&mut out, res) {
            accs.push(check_outcome(&mut out, &o, &prep));
        }
    }
    let peak_rss_mb = crate::report::peak_rss_mib();
    let (mut setup_times, same) = setup::prepare_again(&prep, SETUP_REPS - 1);
    setup_times.push(first_setup_s);
    out.check(same, || "teacher probabilities differ between set-up repetitions".into());
    out.note("setup_reps", setup_times.len() as f64);
    out.note("distill_runs", times.len() as f64);
    let acc = if accs.is_empty() { f64::NAN } else { accs.iter().sum::<f64>() / accs.len() as f64 };
    out.end_to_end(EndToEnd {
        setup_s: median(&setup_times),
        peak_rss_mb,
        latency_ms: median(&times) * 1e3,
        accuracy: acc,
    });
    out
}

/// Counts one `distill_with_config` call: its AED runs on success, one
/// failed run on error.
fn account(out: &mut Outcome, res: lightts::Result<DistillOutcome>) -> Option<DistillOutcome> {
    match res {
        Ok(o) => {
            out.attempted += o.aed_runs as u64;
            Some(o)
        }
        Err(e) => {
            out.attempted += 1;
            out.failed += 1;
            out.check(false, || format!("distill_with_config failed: {e}"));
            None
        }
    }
}

/// The Scenario-1 output checks: removal bookkeeping, teacher weights, and
/// a packed export that serves bitwise the probabilities of the live model.
/// Returns the student's test accuracy.
fn check_outcome(out: &mut Outcome, o: &DistillOutcome, prep: &Prepared) -> f64 {
    out.check(o.aed_runs == TEACHERS, || format!("aed_runs {} != {TEACHERS}", o.aed_runs));
    let kept = &o.kept_teachers;
    let subset = !kept.is_empty()
        && kept.windows(2).all(|w| w[0] < w[1])
        && kept.iter().all(|&k| k < TEACHERS);
    out.check(subset, || {
        format!("kept teachers {kept:?} are not a non-empty subset of 0..{TEACHERS}")
    });
    let w = &o.teacher_weights;
    let finite = w.len() == TEACHERS && w.iter().all(|x| x.is_finite());
    out.check(finite, || format!("teacher weights {w:?} are not {TEACHERS} finite values"));
    if finite && subset {
        let kept_sum: f64 = kept.iter().map(|&k| f64::from(w[k])).sum();
        out.check((kept_sum - 1.0).abs() < 1e-4, || format!("kept weights sum to {kept_sum}"));
        let dropped_zero = (0..TEACHERS).filter(|i| !kept.contains(i)).all(|i| w[i] == 0.0);
        out.check(dropped_zero, || format!("removed teachers keep weight: {w:?}"));
    }

    let expected = o.student.predict_proba_dataset(&prep.splits.test).expect("test probabilities");
    let bytes = o.student.save_bytes().expect("export the student");
    let mut registry = ModelRegistry::new();
    registry.load_packed("student", &bytes).expect("reload the exported student");
    let server = Server::start(registry, ServeConfig { shards: 1, ..ServeConfig::default() });
    let handle = server.handle();
    let test = &prep.splits.test;
    let pending: Vec<_> = (0..test.len())
        .map(|i| {
            let row = test.batch(&[i]).expect("test row").inputs.into_vec();
            handle.submit("student", row).expect("submit a test row")
        })
        .collect();
    let served: Vec<f32> =
        pending.into_iter().flat_map(|p| p.wait().expect("served test row")).collect();
    server.shutdown();
    out.check(same_bits(&served, expected.data()), || {
        "the reloaded export serves probabilities that differ from predict_proba_dataset".into()
    });
    accuracy(&expected, test.labels()).expect("test accuracy")
}

/// The traced run: one traced set-up, the end-to-end call untraced and
/// traced, then the per-layer probes.
fn traced(seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let prep = setup::prepare(tracer);
    let lt = setup::lightts(setup::student_seed(seed, 0));
    let cfg = setup::student_config(&prep.splits);

    let t0 = Instant::now();
    let plain = lt.distill_with_config(&prep.splits, &prep.teachers, &cfg);
    let untraced_s = t0.elapsed().as_secs_f64();
    let plain = account(out, plain);
    let res = tracer.span("core.distill_with_config", || {
        lt.distill_with_config(&prep.splits, &prep.teachers, &cfg)
    });
    let traced_s = trace::busy_s(&tracer.spans(), "core.distill_with_config");
    if let (Some(a), Some(b)) = (plain, account(out, res)) {
        check_outcome(out, &b, &prep);
        let export = |o: &DistillOutcome| o.student.save_bytes().expect("export the student");
        let same = export(&a) == export(&b);
        out.check(same, || "traced and untraced distillation exported different bytes".into());
        out.note("distill.aed_runs", b.aed_runs as f64);
    }
    out.note("core.distill_s", traced_s);
    out.metric("obs.trace_overhead", traced_s / untraced_s);
    crate::probe::layers(seed, &lt, &prep, tracer, out);
}
