//! What one run reports: its metrics, its operation counts, the output
//! checks it failed, and the environment it ran in.

use std::fmt::Write as _;

/// The end-to-end metrics declared in `BENCHMARK.json`, with their units.
/// Every workload reports all of them with `--trace 0`.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mb", "MiB"), ("latency_ms", "ms"), ("accuracy", "fraction")];

/// The per-layer metrics declared in `BENCHMARK.json`, with their units.
/// Every workload reports all of them with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("data.generate_ms", "ms"),
    ("models.teachers_s", "s"),
    ("distill.epoch_ms", "ms"),
    ("distill.epoch_classic_ms", "ms"),
    ("distill.outer_ms", "ms"),
    ("models.forward_train_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("nn.optim_ms", "ms"),
    ("tensor.conv_fwd_ms", "ms"),
    ("tensor.conv_bwd_input_ms", "ms"),
    ("tensor.conv_bwd_weight_ms", "ms"),
    ("tensor.pool_hit_ratio", "ratio"),
    ("models.plan_b1_us", "us"),
    ("models.plan_b16_us", "us"),
    ("models.qplan_b1_us", "us"),
    ("models.qplan_b16_us", "us"),
    ("models.plan_batch_gain", "ratio"),
    ("models.qplan_batch_gain", "ratio"),
    ("search.encoder_ms", "ms"),
    ("search.gp_fit_ms", "ms"),
    ("search.acquisition_ms", "ms"),
    ("serve.load_f32_ms", "ms"),
    ("serve.load_i8_ms", "ms"),
    ("serve.inproc_p50_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.fuse_us", "us"),
    ("serve.forward_us", "us"),
    ("serve.reply_us", "us"),
    ("serve.burst_mean_batch", "count"),
    ("obs.trace_overhead", "ratio"),
];

/// The metrics a run reports: end-to-end untraced, per-layer traced.
pub fn declared(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The end-to-end figures of one untraced run, each as the workload
/// defines it (see `METRICS.md`).
pub struct EndToEnd {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Peak resident memory after the measured calls, MiB.
    pub peak_rss_mb: f64,
    /// The workload's operation latency, milliseconds.
    pub latency_ms: f64,
    /// Accuracy of the workload's output, in [0, 1].
    pub accuracy: f64,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (AED runs, oracle calls, or requests).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Reported metrics, in order.
    pub metrics: Vec<Metric>,
    /// Output checks that did not hold.
    pub misses: Vec<String>,
    /// Extra facts for the detail line, as `(key, JSON value)`.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a metric declared in [`END_TO_END`] or [`PER_LAYER`].
    ///
    /// # Panics
    /// If `name` is declared in neither.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("{name} is not a metric of BENCHMARK.json"));
        self.metrics.push(Metric { name, unit, value });
    }

    /// Adds every end-to-end metric.
    pub fn end_to_end(&mut self, e: EndToEnd) {
        self.metric("setup_s", e.setup_s);
        self.metric("peak_rss_mb", e.peak_rss_mb);
        self.metric("latency_ms", e.latency_ms);
        self.metric("accuracy", e.accuracy);
    }

    /// Why the metrics are not exactly the declared set for this kind of
    /// run, if they are not.
    pub fn undeclared(&self, trace: bool) -> Option<String> {
        let want = declared(trace);
        let mut got: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        got.sort_unstable();
        let dup = got.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]);
        if let Some(d) = dup {
            return Some(format!("metric {d} reported twice"));
        }
        let missing: Vec<&str> =
            want.iter().map(|(n, _)| *n).filter(|n| got.binary_search(n).is_err()).collect();
        let extra = got.len() + missing.len() - want.len();
        (!missing.is_empty() || extra > 0)
            .then(|| format!("missing metrics {missing:?}; {extra} not declared for this run"))
    }

    /// Records an output check; `what` describes the miss.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.misses.push(what());
        }
    }

    /// Adds a number to the detail line (`null` when not finite).
    pub fn note(&mut self, key: impl Into<String>, value: f64) {
        let v = if value.is_finite() { value.to_string() } else { "null".into() };
        self.notes.push((key.into(), v));
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                m,
                "{sep}{}:{{\"value\":{},\"unit\":{}}}",
                json_string(x.name),
                x.value,
                json_string(x.unit)
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.misses.is_empty(),
            self.attempted,
            self.failed
        )
    }

    /// The detail line: notes and missed checks.
    pub fn detail_line(&self) -> String {
        let notes: Vec<String> =
            self.notes.iter().map(|(k, v)| format!("{}:{v}", json_string(k))).collect();
        let misses: Vec<String> = self.misses.iter().map(|s| json_string(s)).collect();
        format!("{{\"detail\":{{{}}},\"misses\":[{}]}}", notes.join(","), misses.join(","))
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host CPU counters from `/proc/stat`: (steal, total) jiffies over all
/// CPUs. On a shared virtual machine, steal is the time the hypervisor ran
/// another guest; a run's share of it explains much of its noise.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The commit of the checkout, read from `.git` when there is one.
pub fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// FNV-1a digest of the library sources (`crates/**`, sorted by path), so a
/// run outside a git checkout still names the code it measured.
pub fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for &b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.metric("setup_s", 0.8127);
        o.metric("latency_ms", 1.25);
        assert_eq!(
            o.result_line(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.8127,\"unit\":\"s\"},\
             \"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        o.note("tail", f64::INFINITY);
        assert!(o.detail_line().contains("\"tail\":null"));
        o.check(false, || "bad \"row\"".into());
        assert!(o.result_line().starts_with("{\"correct\":false,"));
        assert!(o.detail_line().contains("bad \\\"row\\\""));
    }

    #[test]
    fn a_run_must_report_exactly_the_declared_metrics() {
        let mut o = Outcome::default();
        o.end_to_end(EndToEnd { setup_s: 1.0, peak_rss_mb: 64.0, latency_ms: 2.0, accuracy: 0.5 });
        assert_eq!(o.undeclared(false), None);
        assert!(o.undeclared(true).is_some());
        o.metric("obs.trace_overhead", 1.0);
        assert!(o.undeclared(false).unwrap().contains("1 not declared"));
        let mut o = Outcome::default();
        o.metric("setup_s", 1.0);
        o.metric("setup_s", 1.0);
        assert!(o.undeclared(false).unwrap().contains("twice"));
    }

    #[test]
    #[should_panic(expected = "not a metric")]
    fn an_undeclared_metric_panics() {
        Outcome::default().metric("distill_s", 1.0);
    }

    /// The declared tables are the manifest's, entry for entry.
    #[test]
    fn tables_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        let e2e = manifest.find("\"end_to_end\"").expect("end_to_end section");
        let layers = manifest.find("\"per_layer\"").expect("per_layer section");
        assert!(e2e < layers, "end_to_end precedes per_layer");
        for (section, table) in
            [(&manifest[e2e..layers], &END_TO_END[..]), (&manifest[layers..], &PER_LAYER[..])]
        {
            assert_eq!(section.matches("\"name\"").count(), table.len());
            for (name, unit) in table {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
                assert!(section.contains(&entry), "{entry} is not in the manifest");
            }
        }
    }
}
